//! Discrete distributions: weighted categories and empirical frequency
//! tables.
//!
//! The paper's class mixes are categorical: submission interfaces
//! (map-reduce 1 %, batch 30 %, interactive 4 %, other 65 %), lifecycle
//! outcomes (mature 60 %, exploratory 18 %, development 19 %, IDE 3.5 %),
//! and GPU counts (1 GPU 84 %, 2 GPUs ~13.6 %, …).

use crate::error::StatsError;
use rand::Rng;

/// A categorical distribution over indices `0..k` with arbitrary
/// non-negative weights.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), sc_stats::StatsError> {
/// use rand::SeedableRng;
/// use sc_stats::dist::Categorical;
///
/// // Interface mix from Sec. III: map-reduce, batch, interactive, other.
/// let mix = Categorical::new(&[1.0, 30.0, 4.0, 65.0])?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let idx = mix.sample_index(&mut rng);
/// assert!(idx < 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Creates a categorical distribution from weights (not necessarily
    /// normalized).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for no weights and
    /// [`StatsError::InvalidParameter`] if any weight is negative,
    /// non-finite, or all weights are zero.
    pub fn new(weights: &[f64]) -> Result<Self, StatsError> {
        if weights.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(StatsError::InvalidParameter { name: "weight", value: w });
            }
            total += w;
            cumulative.push(total);
        }
        if total <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "total", value: total });
        }
        for c in &mut cumulative {
            *c /= total;
        }
        // Guard against floating point: force the last cumulative to 1.
        *cumulative.last_mut().expect("non-empty") = 1.0;
        Ok(Categorical { cumulative })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether there are no categories (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Probability of category `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn probability(&self, i: usize) -> f64 {
        let lo = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        self.cumulative[i] - lo
    }

    /// Draws a category index.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cumulative.partition_point(|c| *c < u).min(self.cumulative.len() - 1)
    }
}

/// An empirical discrete distribution over arbitrary `u32` values with
/// observed frequencies — used for GPU-count draws where the support is
/// `{1, 2, 3, …, 32}` with very uneven mass.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalDiscrete {
    values: Vec<u32>,
    dist: Categorical,
}

impl EmpiricalDiscrete {
    /// Creates the distribution from `(value, weight)` pairs.
    ///
    /// # Errors
    ///
    /// Same as [`Categorical::new`].
    pub fn new(pairs: &[(u32, f64)]) -> Result<Self, StatsError> {
        let values: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let weights: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        Ok(EmpiricalDiscrete { values, dist: Categorical::new(&weights)? })
    }

    /// Draws a value.
    pub fn sample_value<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.values[self.dist.sample_index(rng)]
    }

    /// The support values in insertion order.
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// Probability of the `i`-th support value.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn probability(&self, i: usize) -> f64 {
        self.dist.probability(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn probabilities_normalize() {
        let c = Categorical::new(&[1.0, 30.0, 4.0, 65.0]).unwrap();
        let total: f64 = (0..c.len()).map(|i| c.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((c.probability(3) - 0.65).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_category_never_sampled() {
        let c = Categorical::new(&[0.0, 1.0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for _ in 0..1000 {
            assert_eq!(c.sample_index(&mut rng), 1);
        }
    }

    #[test]
    fn frequencies_converge() {
        let c = Categorical::new(&[0.6, 0.18, 0.19, 0.035]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut counts = [0usize; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[c.sample_index(&mut rng)] += 1;
        }
        for (i, &cnt) in counts.iter().enumerate() {
            let freq = cnt as f64 / n as f64;
            assert!((freq - c.probability(i)).abs() < 0.01, "cat {i}: {freq}");
        }
    }

    #[test]
    fn empirical_discrete_draws_support_values() {
        let d = EmpiricalDiscrete::new(&[(1, 84.0), (2, 13.6), (4, 1.9), (16, 0.5)]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..1000 {
            let v = d.sample_value(&mut rng);
            assert!([1, 2, 4, 16].contains(&v));
        }
    }

    #[test]
    fn rejects_invalid_weights() {
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[-1.0, 2.0]).is_err());
        assert!(Categorical::new(&[0.0, 0.0]).is_err());
        assert!(Categorical::new(&[f64::NAN]).is_err());
    }
}
