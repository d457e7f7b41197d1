//! Beta distribution for bounded utilization fractions.
//!
//! GPU utilizations live in `[0, 100]` % and the paper's per-class
//! distributions are strongly skewed (median SM 16 %, but 22 % of jobs
//! touch 100 % at some point). Beta shapes express exactly this.

use super::Sample;
use crate::error::StatsError;
use rand::Rng;

/// A beta distribution on `(0, 1)` with shape parameters `a, b > 0`.
///
/// Sampling uses the ratio of two gamma variates, themselves drawn with
/// the Marsaglia–Tsang squeeze method (with the `a < 1` boost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    a: f64,
    b: f64,
}

impl Beta {
    /// Creates a beta distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless both shapes are
    /// finite and strictly positive.
    pub fn new(a: f64, b: f64) -> Result<Self, StatsError> {
        if !a.is_finite() || a <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "a", value: a });
        }
        if !b.is_finite() || b <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "b", value: b });
        }
        Ok(Beta { a, b })
    }

    /// Solves shape parameters from a target mean (in `(0, 1)`) and a
    /// "concentration" `kappa = a + b > 0`: `a = mean * kappa`,
    /// `b = (1 - mean) * kappa`. Larger `kappa` concentrates mass around
    /// the mean; `kappa < 2` produces the bathtub shapes typical of
    /// utilization data.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `0 < mean < 1` and
    /// `kappa > 0`.
    pub fn from_mean_concentration(mean: f64, kappa: f64) -> Result<Self, StatsError> {
        if !(mean > 0.0 && mean < 1.0) {
            return Err(StatsError::InvalidParameter { name: "mean", value: mean });
        }
        if !kappa.is_finite() || kappa <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "kappa", value: kappa });
        }
        Beta::new(mean * kappa, (1.0 - mean) * kappa)
    }

    /// First shape parameter.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Second shape parameter.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Mean, `a / (a + b)`.
    pub fn mean(&self) -> f64 {
        self.a / (self.a + self.b)
    }

    /// Variance.
    pub fn variance(&self) -> f64 {
        let s = self.a + self.b;
        self.a * self.b / (s * s * (s + 1.0))
    }
}

/// A gamma distribution with the given shape and unit scale, sampled via
/// Marsaglia–Tsang. Exposed primarily for Dirichlet-style normalized
/// draws (per-user lifecycle mixes in the workload generator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
}

impl Gamma {
    /// Creates a gamma distribution with unit scale.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `shape` is finite
    /// and strictly positive.
    pub fn new(shape: f64) -> Result<Self, StatsError> {
        if !shape.is_finite() || shape <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "shape", value: shape });
        }
        Ok(Gamma { shape })
    }

    /// Shape parameter.
    pub fn shape(&self) -> f64 {
        self.shape
    }
}

impl Sample for Gamma {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        gamma_variate(rng, self.shape)
    }
}

/// Draws a gamma(shape, 1) variate via Marsaglia–Tsang.
pub(crate) fn gamma_variate<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    if shape < 1.0 {
        // Boost: gamma(a) = gamma(a + 1) * U^(1/a).
        let u: f64 = 1.0 - rng.gen::<f64>();
        return gamma_variate(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = super::Normal::standard_variate(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = 1.0 - rng.gen::<f64>();
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

impl Sample for Beta {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let x = gamma_variate(rng, self.a);
        let y = gamma_variate(rng, self.b);
        if x + y == 0.0 {
            // Numerically possible only for tiny shapes; split evenly.
            return 0.5;
        }
        x / (x + y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn samples_in_unit_interval() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for &(a, b) in &[(0.3, 0.3), (2.0, 5.0), (0.5, 3.0), (8.0, 1.0)] {
            let d = Beta::new(a, b).unwrap();
            for _ in 0..500 {
                let x = d.sample(&mut rng);
                assert!((0.0..=1.0).contains(&x), "x={x} for a={a}, b={b}");
            }
        }
    }

    #[test]
    fn mean_converges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let d = Beta::new(2.0, 6.0).unwrap();
        let xs = d.sample_n(&mut rng, 50_000);
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((m - 0.25).abs() < 0.01, "mean={m}");
    }

    #[test]
    fn variance_converges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let d = Beta::new(2.0, 2.0).unwrap();
        let xs = d.sample_n(&mut rng, 50_000);
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let v = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((v - d.variance()).abs() < 0.005, "var={v} expected={}", d.variance());
    }

    #[test]
    fn small_shapes_produce_bathtub_mass_near_edges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let d = Beta::new(0.3, 0.3).unwrap();
        let xs = d.sample_n(&mut rng, 20_000);
        let near_edges = xs.iter().filter(|x| **x < 0.1 || **x > 0.9).count();
        assert!(near_edges as f64 / xs.len() as f64 > 0.5);
    }

    #[test]
    fn from_mean_concentration_hits_mean() {
        let d = Beta::from_mean_concentration(0.16, 1.5).unwrap();
        assert!((d.mean() - 0.16).abs() < 1e-12);
    }

    #[test]
    fn gamma_mean_equals_shape() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for &shape in &[0.5, 1.0, 3.5] {
            let d = Gamma::new(shape).unwrap();
            let xs = d.sample_n(&mut rng, 50_000);
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            assert!((m - shape).abs() / shape < 0.05, "shape {shape}: mean {m}");
            assert!(xs.iter().all(|x| *x >= 0.0));
        }
        assert!(Gamma::new(0.0).is_err());
        assert_eq!(Gamma::new(2.0).unwrap().shape(), 2.0);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(Beta::new(0.0, 1.0).is_err());
        assert!(Beta::new(1.0, -2.0).is_err());
        assert!(Beta::from_mean_concentration(1.0, 2.0).is_err());
        assert!(Beta::from_mean_concentration(0.5, 0.0).is_err());
    }
}
