//! Pareto distribution for heavy-tailed user activity.
//!
//! Sec. IV: "top 5% of the users submit 44% of the jobs, and top 20% of
//! the users submit 83.2% of the jobs. This Pareto Principle is as
//! expected". The workload generator draws per-user activity weights
//! from a [`Pareto`] whose shape is calibrated to hit those shares.

use super::Sample;
use crate::error::StatsError;
use rand::Rng;

/// A Pareto (type I) distribution with scale `x_min > 0` and shape
/// `alpha > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless both parameters
    /// are finite and strictly positive.
    pub fn new(x_min: f64, alpha: f64) -> Result<Self, StatsError> {
        if !x_min.is_finite() || x_min <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "x_min", value: x_min });
        }
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "alpha", value: alpha });
        }
        Ok(Pareto { x_min, alpha })
    }

    /// Scale parameter (minimum value).
    pub fn x_min(&self) -> f64 {
        self.x_min
    }

    /// Shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Mean; infinite when `alpha <= 1`.
    pub fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.x_min / (self.alpha - 1.0)
        }
    }

    /// Theoretical share of the total held by the top `p` fraction of the
    /// population (valid for `alpha > 1`): `p^(1 - 1/alpha)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `(0, 1]`.
    pub fn top_share(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1], got {p}");
        p.powf(1.0 - 1.0 / self.alpha)
    }

    /// Solves the shape `alpha` such that the top `p` fraction holds a
    /// `share` fraction of the total: inverse of [`Pareto::top_share`].
    ///
    /// The paper's "top 20% submit 83.2%" gives
    /// `alpha = 1 / (1 - ln(0.832)/ln(0.2)) ≈ 1.13`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `0 < p < 1` and
    /// `p < share < 1` (the top slice must hold more than its population
    /// share for a Pareto to exist).
    pub fn shape_for_top_share(p: f64, share: f64) -> Result<f64, StatsError> {
        if !(p > 0.0 && p < 1.0) {
            return Err(StatsError::InvalidParameter { name: "p", value: p });
        }
        if !(share > p && share < 1.0) {
            return Err(StatsError::InvalidParameter { name: "share", value: share });
        }
        // share = p^(1 - 1/alpha)  =>  1 - 1/alpha = ln(share)/ln(p).
        let ratio = share.ln() / p.ln();
        Ok(1.0 / (1.0 - ratio))
    }
}

impl Sample for Pareto {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.gen::<f64>();
        self.x_min / u.powf(1.0 / self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lorenz;
    use rand::SeedableRng;

    #[test]
    fn samples_bounded_below() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let d = Pareto::new(2.0, 1.5).unwrap();
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 2.0);
        }
    }

    #[test]
    fn shape_solver_round_trips() {
        let alpha = Pareto::shape_for_top_share(0.2, 0.832).unwrap();
        let d = Pareto::new(1.0, alpha).unwrap();
        assert!((d.top_share(0.2) - 0.832).abs() < 1e-12);
    }

    #[test]
    fn paper_top_shares_emerge_from_samples() {
        // Calibrate to "top 20% submit 83.2%" and check the sampled
        // Lorenz shares land in the heavy-tailed ballpark. The band is
        // deliberately wide: at alpha ≈ 1.13 the variance is infinite,
        // so the empirical top-20% share of a 20k draw ranges roughly
        // 0.75–0.96 across seeds (the exact calibration is covered
        // analytically by `shape_solver_round_trips`).
        let alpha = Pareto::shape_for_top_share(0.2, 0.832).unwrap();
        let d = Pareto::new(1.0, alpha).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let xs = d.sample_n(&mut rng, 20_000);
        let l = Lorenz::new(xs).unwrap();
        let s20 = l.top_share(0.2);
        assert!(s20 > 0.70 && s20 < 0.98, "top-20% share={s20}");
        let s5 = l.top_share(0.05);
        assert!(s5 > 0.40 && s5 < 0.95, "top-5% share={s5}");
    }

    #[test]
    fn mean_formula() {
        let d = Pareto::new(2.0, 3.0).unwrap();
        assert!((d.mean() - 3.0).abs() < 1e-12);
        let heavy = Pareto::new(1.0, 0.9).unwrap();
        assert!(heavy.mean().is_infinite());
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(Pareto::new(0.0, 1.0).is_err());
        assert!(Pareto::new(1.0, 0.0).is_err());
        assert!(Pareto::shape_for_top_share(0.2, 0.1).is_err());
        assert!(Pareto::shape_for_top_share(1.0, 0.9).is_err());
    }
}
